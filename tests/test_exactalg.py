"""Exact algebra over p(rho) exp(-a rho): golden values and invariants."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dipolesum import exactalg as xa
from dipolesum.errors import (
    DivergentAtOrigin,
    ExponentFloorExceeded,
    NoPolynomialSolution,
    RateMismatch,
    ResonanceUnprojected,
)
from dipolesum.hydrogen import bound_state


def pe(coeffs, rate):
    return xa.polyexp(coeffs, rate)


class TestAdd:
    def test_additive_inverse_prunes_to_zero(self):
        f = pe({2: 2}, 1)
        g = pe({2: -2}, 1)
        assert xa.add(f, g).is_zero()

    def test_coefficient_arithmetic(self):
        f = pe({3: 1, 2: -2}, F(1, 2))
        g = pe({2: 3}, F(1, 2))
        assert xa.add(f, g) == pe({3: 1, 2: 1}, F(1, 2))

    def test_rate_mismatch(self):
        with pytest.raises(RateMismatch):
            xa.add(pe({1: 1}, 1), pe({1: 1}, F(1, 2)))


class TestDifferentiate:
    def test_product_rule(self):
        assert xa.differentiate(pe({2: 2}, 1)) == pe({1: 4, 2: -2}, 1)

    def test_pure_exponential(self):
        assert xa.differentiate(pe({0: 1}, 1)) == pe({0: -1}, 1)

    def test_laurent_term(self):
        assert xa.differentiate(pe({-1: 1}, 1)) == pe({-2: -1, -1: -1}, 1)


class TestApplyH:
    def test_ground_ladder_first_rung(self):
        f = pe({2: 2}, 1)
        assert xa.apply_h(f, 1, 1) == pe({1: 4}, 1)

    def test_ground_ladder_second_rung(self):
        assert xa.apply_h(pe({1: 4}, 1), 1, 1) == pe({-1: 8}, 1)

    def test_excited_ladder_rung(self):
        f = pe({3: 1, 2: -2}, F(1, 2))
        assert xa.apply_h(f, 1, F(1, 4)) == pe({2: 1, 1: -4}, F(1, 2))


class TestOverlap:
    def test_seed_self_overlap(self):
        f = pe({2: 2}, 1)
        assert xa.overlap(f, f) == 3

    def test_factorial_identity(self):
        assert xa.overlap(pe({2: 1}, 1), pe({2: 1}, 1)) == F(3, 4)

    def test_divergent_at_origin(self):
        with pytest.raises(DivergentAtOrigin):
            xa.overlap(pe({1: 4}, 1), pe({-2: 8}, 1))

    def test_mixed_rates(self):
        # int rho^4 exp(-3 rho/2) = 24 (2/3)^5
        assert xa.overlap(pe({2: 1}, 1), pe({2: 1}, F(1, 2))) == 24 * F(2, 3) ** 5


class TestSolveInhomogeneous:
    def test_ground_state_first_inverse(self):
        rhs = pe({2: 2}, 1)
        got = xa.solve_inhomogeneous(rhs, 1, 1)
        assert got == pe({2: 1, 3: F(1, 2)}, 1)

    def test_degenerate_projected_inverse(self):
        rhs = pe({3: 1, 2: -5}, F(1, 2))
        hom = pe({2: 1}, F(1, 2))
        got = xa.solve_inhomogeneous(rhs, 1, F(1, 4), homogeneous=hom)
        assert got == pe({4: F(1, 2), 2: -15}, F(1, 2))

    def test_resonance_unprojected(self):
        hom = pe({2: 1}, F(1, 2))
        with pytest.raises(ResonanceUnprojected):
            xa.solve_inhomogeneous(hom, 1, F(1, 4), homogeneous=hom)

    def test_missing_homogeneous_detected(self):
        # rhs orthogonal to the kernel but kernel direction left free
        rhs = pe({3: 1, 2: -5}, F(1, 2))
        with pytest.raises(NoPolynomialSolution):
            xa.solve_inhomogeneous(rhs, 1, F(1, 4))

    def test_wrong_rate_rejected(self):
        with pytest.raises(NoPolynomialSolution):
            xa.solve_inhomogeneous(pe({2: 1}, 1), 1, F(1, 4))


class TestFloorAndLimits:
    def test_exponent_floor(self):
        with pytest.raises(ExponentFloorExceeded):
            pe({-5: 1}, 1)

    def test_origin_limit(self):
        assert xa.origin_limit(pe({0: 3, 1: 7}, 1)) == 3
        assert xa.origin_limit(pe({1: 7}, 1)) == 0
        assert xa.origin_limit(pe({-1: 1}, 1)) is None


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

coeffs = st.integers(min_value=-6, max_value=6).map(F)
rates = st.sampled_from([F(1), F(1, 2), F(1, 3), F(2)])


def polyexps(min_exp=1, max_exp=5, rate=None):
    def build(draw_coeffs, r):
        d = {e: c for e, c in zip(range(min_exp, max_exp + 1), draw_coeffs) if c}
        d.setdefault(min_exp, F(1))
        return xa.polyexp(d, r)
    return st.builds(build,
                     st.lists(coeffs, min_size=max_exp - min_exp + 1,
                              max_size=max_exp - min_exp + 1),
                     rate if rate is not None else rates)


@settings(max_examples=60, deadline=None)
@given(polyexps(), polyexps())
def test_overlap_symmetric(f, g):
    assert xa.overlap(f, g) == xa.overlap(g, f)


@settings(max_examples=60, deadline=None)
@given(polyexps(rate=st.just(F(1))), polyexps(rate=st.just(F(1))),
       polyexps(rate=st.just(F(1))), coeffs, coeffs)
def test_overlap_bilinear(f, g, h, a, b):
    lhs = xa.overlap(xa.add(xa.scale(f, a), xa.scale(g, b)), h)
    assert lhs == a * xa.overlap(f, h) + b * xa.overlap(g, h)


@settings(max_examples=60, deadline=None)
@given(polyexps(min_exp=0, max_exp=4), polyexps(min_exp=0, max_exp=4))
def test_integration_by_parts_boundary(f, g):
    # int (f g)' drho = -[f g](0); assembled first so the origin-divergent
    # pieces of f'g and g'f cancel before integrating
    combined = xa.add(xa.mul(xa.differentiate(f), g), xa.mul(f, xa.differentiate(g)))
    assert xa.integrate(combined) == -xa.origin_limit(xa.mul(f, g))


@settings(max_examples=40, deadline=None)
@given(polyexps(min_exp=2, max_exp=5, rate=st.just(F(1, 2))))
def test_solve_then_apply_roundtrip(rhs):
    hom = xa.polyexp({2: 1}, F(1, 2))
    coef = xa.overlap(hom, rhs) / xa.overlap(hom, hom)
    projected = xa.sub(rhs, xa.scale(hom, coef))
    sol = xa.solve_inhomogeneous(projected, 1, F(1, 4), homogeneous=hom)
    assert xa.sub(xa.apply_h(sol, 1, F(1, 4)), projected).is_zero()
    assert xa.overlap(hom, sol) == 0


# ---------------------------------------------------------------------------
# reference fuzz: the integer kernels and the triangular solve against the
# per-term Fraction integral and the dense Gauss-Jordan solve they replaced
# ---------------------------------------------------------------------------


def ref_integrate(f):
    total = F(0)
    for e, c in f.terms:
        if e < 0:
            raise DivergentAtOrigin(f"term rho^{e} is not integrable at the origin")
        total += c * math.factorial(e) / f.rate ** (e + 1)
    return total


def ref_overlap(f, g):
    return ref_integrate(xa.mul(f, g))


def ref_apply_h(f, l, ksq):
    ksq, lam, a = F(ksq), F(l * (l + 1)), f.rate
    acc = {}

    def put(e, c):
        if c != 0:
            acc[e] = acc.get(e, F(0)) + c

    for e, c in f.terms:
        put(e - 2, -c * e * (e - 1))
        put(e - 1, 2 * a * e * c)
        put(e, -a * a * c)
        put(e - 2, lam * c)
        put(e - 1, -2 * c)  # 2 v0 = -2/rho
        put(e, ksq * c)
    return xa.polyexp(acc, a)


def ref_solve(rhs, l, ksq, homogeneous=None):
    """Dense exact Gauss-Jordan elimination over the full ansatz."""
    ksq = F(ksq)
    a = rhs.rate
    if a * a != ksq:
        raise NoPolynomialSolution(f"rhs rate {a} is not the bound rate for ksq={ksq}")
    if homogeneous is not None and ref_overlap(homogeneous, rhs) != 0:
        raise ResonanceUnprojected("rhs has a component along the homogeneous solution")
    if rhs.is_zero():
        return xa.PolyExp(terms=(), rate=a)
    basis = list(range(l + 1, max(rhs.max_exponent() + 2, l + 1) + 1))
    images = [ref_apply_h(xa.polyexp({e: 1}, a), l, ksq) for e in basis]
    row_exps = sorted({e for img in images for e, _ in img.terms} | {e for e, _ in rhs.terms})
    nrow, ncol = len(row_exps), len(basis)
    row_of = {e: i for i, e in enumerate(row_exps)}
    mat = [[F(0)] * (ncol + 1) for _ in range(nrow)]
    for j, img in enumerate(images):
        for e, c in img.terms:
            mat[row_of[e]][j] = c
    for e, c in rhs.terms:
        mat[row_of[e]][ncol] = c
    if homogeneous is not None:
        mat.append([ref_overlap(homogeneous, xa.polyexp({e: 1}, a)) for e in basis] + [F(0)])
        nrow += 1
    pivots = []
    r = 0
    for c in range(ncol):
        pr = next((i for i in range(r, nrow) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(nrow):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
    if any(mat[i][ncol] != 0 for i in range(r, nrow)):
        raise NoPolynomialSolution("inconsistent linear system for the ansatz")
    if len(pivots) < ncol:
        raise NoPolynomialSolution("solution not unique")
    sol = xa.polyexp({basis[c]: mat[i][ncol] for i, c in pivots}, a)
    if not xa.sub(ref_apply_h(sol, l, ksq), rhs).is_zero():
        raise NoPolynomialSolution("verification failed: (h + ksq) G != rhs")
    return sol


def outcome(fn, *args, **kwargs):
    """The result, or the exception type and the first word of its message."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 -- compared, not handled
        return type(exc), str(exc).split()[0]


def laurent(rate, lo=-2, hi=7):
    """Sparse Laurent polynomials with exponents in lo..hi, zero included."""
    return st.builds(
        lambda d, r: xa.polyexp(d, r),
        st.dictionaries(st.integers(min_value=lo, max_value=hi), coeffs, max_size=6),
        rate)


@settings(max_examples=100, deadline=None)
@given(laurent(rates, lo=-3), laurent(rates, lo=-3))
def test_overlap_and_integrate_match_reference(f, g):
    assert outcome(xa.overlap, f, g) == outcome(ref_overlap, f, g)
    assert outcome(xa.integrate, f) == outcome(ref_integrate, f)
    assert outcome(xa.integrate, xa.mul(f, g)) == outcome(ref_integrate, xa.mul(f, g))


@settings(max_examples=100, deadline=None)
@given(laurent(rates), st.integers(min_value=0, max_value=4),
       st.sampled_from([F(0), F(1, 4), F(1), F(-2, 9)]))
def test_apply_h_matches_reference(f, l, ksq):
    assert outcome(xa.apply_h, f, l, ksq) == outcome(ref_apply_h, f, l, ksq)


mostly = st.sampled_from([True, True, True, False])
#: (project the rhs, supply the homogeneous solution); the ladder's case first
MODES = [(True, True), (True, True), (True, False), (False, True), (False, False)]
#: at times one extra low term: a negative power, or rho^0 (below every row the
#: ansatz reaches once l > 0)
low_terms = st.sampled_from([None, None, -3, -1, 0]).map(
    lambda e: xa.polyexp({} if e is None else {e: 1}, 1))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=4),
       laurent(st.just(F(1)), lo=0, hi=6), low_terms, mostly, st.sampled_from(MODES))
def test_coulomb_solve_matches_dense_reference(n, l, raw, low, right_rate, mode):
    """Coulomb channels with l = 0..4 at n = 1..6, with and without a
    normalizable homogeneous solution, projected or not, rate right or wrong.
    Exponents are drawn from l up, where the ansatz first reaches, plus
    at times one term below."""
    project, supply = mode
    rate = F(1, n) if right_rate else F(1, n + 1)
    rhs = xa.PolyExp(xa.add(xa.shift(raw, l), low).terms, rate)
    hom = bound_state(n, l).radial if l < n else None
    if project and hom is not None and right_rate and not rhs.is_zero() \
            and rhs.min_exponent() > -l - 2:
        rhs = xa.sub(rhs, xa.scale(hom, ref_overlap(hom, rhs) / ref_overlap(hom, hom)))
    kw = {"homogeneous": hom} if supply else {}
    got = outcome(xa.solve_inhomogeneous, rhs, l, F(1, n * n), **kw)
    assert got == outcome(ref_solve, rhs, l, F(1, n * n), **kw)
