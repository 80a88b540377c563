"""Floating corroborations: closed form, quadrature, eigenvalues."""

import math
from fractions import Fraction

import pytest

from heaporth.basis import (
    CoeffSpec,
    HankelMatrix,
    hankel_positivity,
    generate_basis,
    stieltjes_moments,
)
from heaporth.numeric import (
    JACOBI_MAX_SIZE,
    binet_eval,
    catalan_integral,
    gf_coeff_check,
    jacobi_eigen_positivity,
    jacobi_eigenvalues,
)
from heaporth.poly import MultiPoly, UniPoly

from oracles import catalan_number

CAT = CoeffSpec.catalan()
FIB = CoeffSpec.fibonacci()


class TestBinet:
    def test_degree_three_at_two(self):
        assert binet_eval(3, 2.0) == pytest.approx(12.0, abs=1e-12)

    def test_degree_zero(self):
        for x in (-2.0, 0.25, 3.0):
            assert binet_eval(0, x) == 1.0

    def test_degree_one(self):
        assert binet_eval(1, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_grid_against_exact_recursion(self):
        basis = generate_basis(20, FIB)
        for n in range(21):
            poly = basis.poly(n)
            for x in (-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 3):
                exact = float(poly.evaluate(Fraction(x)))
                approx = binet_eval(n, float(x))
                assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact))


class TestCatalanIntegral:
    @pytest.mark.parametrize("m", range(7))
    def test_within_1e8_of_catalan(self, m):
        result = catalan_integral(m)
        assert abs(result.value - catalan_number(m)) <= 1e-8

    def test_result_fields(self):
        result = catalan_integral(2)
        assert result.abs_error_estimate >= 0.0
        assert result.evaluations > 0
        assert math.isfinite(result.value)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            catalan_integral(-1)


class TestGeneratingFunction:
    def test_through_degree_ten(self):
        assert gf_coeff_check(10)

    def test_individual_coefficients(self):
        from heaporth.poly import T
        from heaporth.series import series_div

        den = UniPoly((1, -MultiPoly.x(), -1), var=T)
        s = series_div(UniPoly.one(var=T), den, 5)
        x = MultiPoly.x()
        assert s.coefficient(0) == MultiPoly.one()
        assert s.coefficient(2) == x**2 + 1
        assert s.coefficient(5) == x**5 + 4 * x**3 + 3 * x


class TestJacobi:
    def test_two_by_two(self):
        assert jacobi_eigenvalues([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx([1.0, 3.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues([[1.0, 2.0], [0.0, 1.0]])

    def test_catalan_positivity(self):
        mu = stieltjes_moments(4, CAT)
        assert jacobi_eigen_positivity(HankelMatrix.plain(2, mu))

    def test_trivial_matrix(self):
        mu = stieltjes_moments(0, CAT)
        assert jacobi_eigen_positivity(HankelMatrix.plain(0, mu))

    def test_fibonacci_indefinite_nonsingular(self):
        mu = stieltjes_moments(4, FIB)
        matrix = HankelMatrix.plain(2, mu)
        assert not jacobi_eigen_positivity(matrix)
        assert hankel_positivity(matrix).minors[-1] == Fraction(-1)

    def test_agrees_with_exact_minors(self):
        for spec in (CAT, FIB):
            mu = stieltjes_moments(10, spec)
            for n in range(6):
                matrix = HankelMatrix.plain(n, mu)
                exact = hankel_positivity(matrix).positive_definite
                assert jacobi_eigen_positivity(matrix) is exact

    def test_largest_size_converges(self):
        # Entries reach Catalan(11) = 58786; an absolute off-diagonal
        # tolerance of 1e-12 is below what rounding leaves at that scale.
        for spec in (CAT, FIB):
            mu = stieltjes_moments(2 * JACOBI_MAX_SIZE, spec)
            matrix = HankelMatrix.plain(JACOBI_MAX_SIZE - 1, mu)
            rows = [[float(e.constant_value()) for e in row] for row in matrix.rows()]
            eigen = jacobi_eigenvalues(rows)
            assert sum(eigen) == pytest.approx(sum(rows[i][i] for i in range(JACOBI_MAX_SIZE)))
            exact = hankel_positivity(matrix).positive_definite
            assert jacobi_eigen_positivity(matrix) is exact is (spec is CAT)

    def test_size_cap(self):
        mu = stieltjes_moments(2 * JACOBI_MAX_SIZE, CAT)
        with pytest.raises(ValueError, match="size <= 12"):
            jacobi_eigen_positivity(HankelMatrix.plain(JACOBI_MAX_SIZE, mu))

    def test_shifted_variant_rejected(self):
        mu = stieltjes_moments(5, CAT)
        with pytest.raises(ValueError):
            jacobi_eigen_positivity(HankelMatrix.shifted(2, mu))
