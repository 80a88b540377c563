"""Convergents, their polynomial identities, and the moment series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heaporth.basis
import heaporth.series
from heaporth.basis import CoeffSpec, generate_basis, stieltjes_moments
from heaporth.contfrac import (
    cfrac_latex,
    convergent,
    convergent_difference,
    convergent_qstar_identity,
    j_series,
)
from heaporth.poly import MultiPoly, UniPoly, reciprocal_poly, shift_vars
from heaporth.series import RationalFn, TruncatedSeries

from oracles import mixed_custom_spec

SYM = CoeffSpec.symbolic()
CAT = CoeffSpec.catalan()
FIB = CoeffSpec.fibonacci()

c0, c1 = MultiPoly.c(0), MultiPoly.c(1)
l1 = MultiPoly.lam(1)


class TestConvergent:
    def test_depth_zero(self):
        j = convergent(0, SYM).value
        assert j.num == UniPoly.one()
        assert j.den == UniPoly((1, -c0))

    def test_depth_one(self):
        j = convergent(1, SYM).value
        assert j.num == UniPoly((1, -c1))
        assert j.den == UniPoly((1, -(c0 + c1), c0 * c1 - l1))

    def test_invariants(self):
        for spec in (SYM, CAT, FIB):
            for n in range(4):
                j = convergent(n, spec).value
                assert j.den.coeff(0) == MultiPoly.one()
                assert j.num.degree <= n
                assert j.den.degree <= n + 1

    def test_catalan_depth_two_series(self):
        # agrees with the full fraction through x^5
        j = convergent(2, CAT).value
        assert j.series(5) == j_series(5, CAT)


class TestRatioIdentity:
    def test_depth_zero_by_hand(self):
        basis = generate_basis(1, SYM)
        q1_star = reciprocal_poly(basis.poly(1), 1)
        assert q1_star == UniPoly((1, -c0))
        assert convergent_qstar_identity(0, SYM)

    @pytest.mark.parametrize("n", range(4))
    def test_symbolic(self, n):
        assert convergent_qstar_identity(n, SYM)

    @pytest.mark.parametrize("n", range(6))
    def test_fibonacci(self, n):
        assert convergent_qstar_identity(n, FIB)

    @pytest.mark.parametrize("n", range(6))
    def test_catalan(self, n):
        assert convergent_qstar_identity(n, CAT)

    def test_shift_matches_shifted_spec(self):
        # applying the index shift to the built polynomial equals building
        # the polynomial from the shifted spec
        for n in range(4):
            direct = shift_vars(generate_basis(n, SYM).poly(n))
            via_spec = generate_basis(n, SYM.shifted()).poly(n)
            assert direct == via_spec


class TestDifferenceIdentity:
    def test_depth_one_by_hand(self):
        lhs = convergent(1, SYM).value - convergent(0, SYM).value
        basis = generate_basis(2, SYM)
        q1_star = reciprocal_poly(basis.poly(1), 1)
        q2_star = reciprocal_poly(basis.poly(2), 2)
        rhs = RationalFn(UniPoly.monomial(2, l1), q1_star * q2_star)
        assert lhs == rhs

    @pytest.mark.parametrize("n", range(1, 4))
    def test_symbolic(self, n):
        assert convergent_difference(n, SYM)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_specialized(self, n):
        assert convergent_difference(n, CAT)
        assert convergent_difference(n, FIB)

    def test_catalan_numerator_is_plain_power(self):
        # all lambda products are 1, so the depth-4 gap is x^8 over the
        # reversed polynomials
        assert CAT.lam_product(4) == MultiPoly.one()
        lhs = convergent(4, CAT).value - convergent(3, CAT).value
        basis = generate_basis(5, CAT)
        rhs = RationalFn(
            UniPoly.monomial(8),
            reciprocal_poly(basis.poly(4), 4) * reciprocal_poly(basis.poly(5), 5),
        )
        assert lhs == rhs


class TestJSeries:
    def test_catalan_golden(self):
        s = j_series(6, CAT)
        assert [c.constant_value() for c in s.coeffs] == [1, 0, 1, 0, 2, 0, 5]

    def test_fibonacci_golden(self):
        s = j_series(8, FIB)
        assert [c.constant_value() for c in s.coeffs] == [1, 0, -1, 0, 2, 0, -5, 0, 14]

    def test_symbolic_matches_moments(self):
        mu = stieltjes_moments(8, SYM)
        s = j_series(8, SYM)
        for n in range(9):
            assert s.coefficient(n) == mu.mu[n]

    def test_specialized_matches_moments(self):
        for spec in (CAT, FIB):
            mu = stieltjes_moments(12, spec)
            s = j_series(12, spec)
            for n in range(13):
                assert s.coefficient(n) == mu.mu[n]

    def test_sign_transfer(self):
        # the all-minus-one series is the all-one series with x^2 -> -x^2
        cat = j_series(16, CAT)
        fib = j_series(16, FIB)
        for n in range(17):
            expected = cat.coefficient(n)
            if n % 2 == 0 and (n // 2) % 2 == 1:
                expected = -expected
            assert fib.coefficient(n) == expected

    def test_functional_equation(self):
        # L * (1 - c0 x - x^2 lambda_1 SL) = 1 up to the declared order
        for spec, order in ((SYM, 8), (CAT, 12), (FIB, 12)):
            L = j_series(order, spec)
            SL = j_series(order, spec.shifted())
            bracket = UniPoly.one() - spec.c(0) * UniPoly.monomial(1)
            rhs = L * bracket - L * SL * UniPoly.monomial(2, spec.lam(1))
            assert rhs == TruncatedSeries.one(order)

    def test_shifted_series_is_shift_of_series(self):
        L = j_series(6, SYM)
        SL = j_series(6, SYM.shifted())
        assert SL == L.map_coefficients(lambda c: shift_vars(c))


def _by_long_division(order, spec):
    """The series of a convergent deep enough for every coefficient to be stable."""
    return convergent((order + 1) // 2, spec).value.series(order)


_small_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


class TestJSeriesAgreesWithConvergent:
    """First-return expansion against the convergent's long division."""

    def test_symbolic(self):
        for order in range(15):
            assert j_series(order, SYM) == _by_long_division(order, SYM)

    @pytest.mark.parametrize(
        "spec", [CAT, FIB, mixed_custom_spec()], ids=["catalan", "fibonacci", "custom"]
    )
    def test_constant_specs(self, spec):
        for order in range(21):
            assert j_series(order, spec) == _by_long_division(order, spec)

    @settings(max_examples=200, deadline=None)
    @given(
        order=st.integers(min_value=0, max_value=10),
        c=st.lists(_small_rationals, min_size=6, max_size=6),
        lam=st.lists(_small_rationals, min_size=5, max_size=5),
    )
    def test_small_rational_specs(self, order, c, lam):
        spec = CoeffSpec.custom(c, lam)
        assert j_series(order, spec) == _by_long_division(order, spec)

    def test_reads_only_what_the_order_needs(self):
        # c_0..c_2 and lambda_1..lambda_2 determine the series to x^5
        short = CoeffSpec.custom([1, 2, 3], [-1, 2])
        longer = CoeffSpec.custom([1, 2, 3, 7, -5], [-1, 2, Fraction(3, 7), 11])
        assert j_series(5, short) == j_series(5, longer)
        # and c_0..c_1 with lambda_1..lambda_2 to x^4
        assert j_series(4, CoeffSpec.custom([1, 2], [-1, 2])) == j_series(4, longer)
        with pytest.raises(IndexError, match="no lambda_3"):
            j_series(6, short)


def test_j_series_shares_no_code_with_triangle_or_division(monkeypatch):
    expected = {spec: j_series(12, spec) for spec in (SYM, CAT, FIB)}

    def refuse(*args, **kwargs):
        raise AssertionError("the J-fraction route called another route's code")

    monkeypatch.setattr(heaporth.series, "series_div", refuse)
    monkeypatch.setattr(heaporth.basis, "stieltjes_moments", refuse)
    monkeypatch.setattr(heaporth.basis, "_triangle_row", refuse)
    for spec, series in expected.items():
        assert j_series(12, spec) == series
    # the patches do bite the routes that use them
    with pytest.raises(AssertionError):
        convergent(3, SYM).value.series(5)
    with pytest.raises(AssertionError):
        stieltjes_moments(3, SYM)


class TestLatex:
    def test_symbolic_depth_one(self):
        text = cfrac_latex(1, SYM)
        assert text == (
            "\\cfrac{1}{-c_{0} x + 1 - \\cfrac{\\lambda_{1} x^{2}}{-c_{1} x + 1}}"
        )

    def test_fibonacci_sign_absorbed(self):
        text = cfrac_latex(2, FIB)
        assert "+ \\cfrac{x^{2}}" in text
        assert "-1" not in text
