"""Recursion engine, moments, scalar products, determinants, expansions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heaporth.basis import (
    CoeffSpec,
    DegenerateSpecError,
    HankelMatrix,
    InsufficientMomentsError,
    MomentSeq,
    SingularHankelError,
    SymbolicMatrixError,
    basis_inverse_check,
    det_bareiss,
    expand_in_basis,
    generate_basis,
    hankel_dets,
    hankel_positivity,
    qn_via_determinant,
    recursion_coeffs,
    scalar_product,
    stieltjes_moments,
)
from heaporth.poly import MultiPoly, UniPoly

from oracles import (
    apply_moment_functional,
    catalan_number,
    full_stieltjes_triangle,
    mixed_custom_spec,
    qn_via_cofactors,
)

x = MultiPoly.x()
c0, c1 = MultiPoly.c(0), MultiPoly.c(1)
l1, l2 = MultiPoly.lam(1), MultiPoly.lam(2)

SYM = CoeffSpec.symbolic()
CAT = CoeffSpec.catalan()
FIB = CoeffSpec.fibonacci()

MU4 = c0**4 + 3 * c0**2 * l1 + 2 * c0 * c1 * l1 + c1**2 * l1 + l1**2 + l1 * l2


class TestGenerateBasis:
    def test_fibonacci_p3(self):
        # hand-unrolled: P2 = x^2 + 1, P3 = x*P2 + P1 = x^3 + 2x
        assert generate_basis(3, FIB).poly(3) == UniPoly((0, 2, 0, 1))

    def test_catalan_q2(self):
        assert generate_basis(2, CAT).poly(2) == UniPoly((-1, 0, 1))

    def test_symbolic_q2(self):
        # (x - c1)(x - c0) - l1
        expected = UniPoly((c0 * c1 - l1, -(c0 + c1), 1))
        assert generate_basis(2, SYM).poly(2) == expected

    def test_monic_of_correct_degree(self):
        basis = generate_basis(6, SYM)
        for n in range(7):
            assert basis.poly(n).degree == n
            assert basis.coeff(n, n) == MultiPoly.one()

    def test_custom_spec_too_short(self):
        spec = CoeffSpec.custom([0, 0], [1])
        with pytest.raises(IndexError):
            generate_basis(4, spec)


class TestStieltjesMoments:
    def test_mu2(self):
        assert stieltjes_moments(2, SYM).mu[2] == c0**2 + l1

    def test_mu4_golden(self):
        assert stieltjes_moments(4, SYM).mu[4] == MU4

    def test_mu0_is_one(self):
        for spec in (SYM, CAT, FIB):
            assert stieltjes_moments(0, spec).mu[0] == MultiPoly.one()

    def test_near_diagonal_entries(self):
        # h[n+1][n] = (c_0 + ... + c_n) * lambda_1 ... lambda_n
        mu = stieltjes_moments(6, SYM)
        for n in range(5):
            csum = MultiPoly.zero()
            for i in range(n + 1):
                csum = csum + SYM.c(i)
            assert mu.h_entry(n + 1, n) == csum * SYM.lam_product(n)

    def test_triangle_zero_above_diagonal(self):
        mu = stieltjes_moments(5, SYM)
        assert mu.h_entry(2, 4).is_zero

    def test_fibonacci_moments_are_signed_catalans(self):
        mu = stieltjes_moments(16, FIB)
        for n in range(17):
            if n % 2:
                assert mu.mu[n].is_zero
            else:
                m = n // 2
                assert mu.mu[n] == MultiPoly.const((-1) ** m * catalan_number(m))


class TestWedgeAgreesWithFullTriangle:
    """The wedge moments and the lazily filled rows against the full triangle."""

    @pytest.mark.parametrize(
        "spec, top",
        [(SYM, 12), (CAT, 20), (FIB, 20), (mixed_custom_spec(), 20)],
        ids=["symbolic", "catalan", "fibonacci", "custom"],
    )
    def test_every_moment_and_entry(self, spec, top):
        rows = full_stieltjes_triangle(top, spec)
        for n_max in range(top + 1):
            mu = stieltjes_moments(n_max, spec)
            assert mu.mu == tuple(rows[n][0] for n in range(n_max + 1))
            for n in range(n_max + 1):
                for k in range(n + 1):
                    assert mu.h_entry(n, k) == rows[n][k]

    def test_rows_fill_out_of_order(self):
        rows = full_stieltjes_triangle(9, SYM)
        mu = stieltjes_moments(9, SYM)
        assert mu.h_entry(4, 2) == rows[4][2]
        assert mu.h_entry(9, 5) == rows[9][5]
        assert mu.h_entry(1, 1) == rows[1][1]

    def test_equality_ignores_filled_rows(self):
        filled, fresh = stieltjes_moments(8, SYM), stieltjes_moments(8, SYM)
        filled.h_entry(8, 4)
        assert filled == fresh
        assert hash(filled) == hash(fresh)
        assert filled != stieltjes_moments(8, CAT)

    def test_wedge_reads_only_what_mu_needs(self):
        # c_0..c_2 and lambda_1..lambda_2 determine mu_0..mu_5
        short = CoeffSpec.custom([1, 2, 3], [-1, 2])
        longer = CoeffSpec.custom([1, 2, 3, 7, -5], [-1, 2, Fraction(3, 7), 11])
        assert stieltjes_moments(5, short).mu == stieltjes_moments(5, longer).mu
        # and c_0..c_1 with lambda_1..lambda_2 mu_0..mu_4
        even = CoeffSpec.custom([1, 2], [-1, 2])
        assert stieltjes_moments(4, even).mu == stieltjes_moments(4, longer).mu
        with pytest.raises(IndexError, match="no lambda_3"):
            stieltjes_moments(6, short)


class TestScalarProduct:
    def test_unit(self):
        mu = stieltjes_moments(0, SYM)
        assert scalar_product(UniPoly.one(), UniPoly.one(), mu) == MultiPoly.one()

    def test_fibonacci_p1_selfproduct(self):
        mu = stieltjes_moments(2, FIB)
        p1 = UniPoly((0, 1))
        assert scalar_product(p1, p1, mu) == MultiPoly.const(-1)

    def test_orthogonality_with_expansion_oracle(self):
        basis = generate_basis(2, SYM)
        mu = stieltjes_moments(3, SYM)
        q2, q1 = basis.poly(2), basis.poly(1)
        value = scalar_product(q2, q1, mu)
        # oracle: expand the product and hit it with the moment list directly
        oracle = apply_moment_functional(q2 * q1, mu.mu)
        assert value == oracle
        assert value.is_zero

    def test_orthogonality_table(self):
        for spec in (SYM, CAT, FIB):
            basis = generate_basis(5, spec)
            mu = stieltjes_moments(10, spec)
            for n in range(6):
                for m in range(6):
                    prod = scalar_product(basis.poly(n), basis.poly(m), mu)
                    if n != m:
                        assert prod.is_zero
                    else:
                        assert prod == spec.lam_product(n)

    def test_triangle_equals_scalar_products(self):
        basis = generate_basis(6, SYM)
        mu = stieltjes_moments(12, SYM)
        for n in range(7):
            for k in range(7):
                direct = scalar_product(UniPoly.monomial(n), basis.poly(k), mu)
                assert direct == mu.h_entry(n, k)

    def test_insufficient_moments(self):
        mu = stieltjes_moments(1, SYM)
        with pytest.raises(InsufficientMomentsError):
            scalar_product(UniPoly.monomial(1), UniPoly.monomial(1), mu)


class TestRecursionCoeffs:
    def test_symbolic_roundtrip(self):
        basis = generate_basis(3, SYM)
        mu = stieltjes_moments(7, SYM)
        lams, cs = recursion_coeffs(basis, mu)
        assert cs[0] == c0 and cs[1] == c1
        assert lams[0] == l1 and lams[1] == l2

    def test_fibonacci_roundtrip(self):
        basis = generate_basis(7, FIB)
        mu = stieltjes_moments(14, FIB)
        lams, cs = recursion_coeffs(basis, mu, n_max=6)
        assert all(lam == MultiPoly.const(-1) for lam in lams)
        assert all(c.is_zero for c in cs)

    def test_catalan_roundtrip(self):
        basis = generate_basis(7, CAT)
        mu = stieltjes_moments(14, CAT)
        lams, cs = recursion_coeffs(basis, mu, n_max=6)
        assert all(lam == MultiPoly.one() for lam in lams)
        assert all(c.is_zero for c in cs)

    def test_degenerate_custom_spec(self):
        spec = CoeffSpec.custom([0] * 6, [0] * 5)
        basis = generate_basis(2, spec)
        mu = stieltjes_moments(5, spec)
        with pytest.raises(DegenerateSpecError):
            recursion_coeffs(basis, mu)


class TestDeterminants:
    def test_bareiss_golden(self):
        rows = [
            [MultiPoly.const(2), MultiPoly.const(1)],
            [MultiPoly.const(1), MultiPoly.const(2)],
        ]
        assert det_bareiss(rows) == MultiPoly.const(3)

    def test_bareiss_needs_row_swap(self):
        rows = [
            [MultiPoly.zero(), MultiPoly.one()],
            [MultiPoly.one(), MultiPoly.zero()],
        ]
        assert det_bareiss(rows) == MultiPoly.const(-1)

    def test_d1_symbolic(self):
        mu = stieltjes_moments(3, SYM)
        d1, _ = hankel_dets(1, mu)
        assert d1 == l1

    def test_fibonacci_dets(self):
        mu = stieltjes_moments(9, FIB)
        dets = [hankel_dets(n, mu)[0] for n in range(5)]
        assert dets == [MultiPoly.const(v) for v in (1, -1, -1, 1, 1)]

    def test_fibonacci_shifted_dets_vanish(self):
        mu = stieltjes_moments(9, FIB)
        for n in range(5):
            assert hankel_dets(n, mu)[1].is_zero

    def test_catalan_dets(self):
        mu = stieltjes_moments(13, CAT)
        for n in range(7):
            d, chi = hankel_dets(n, mu)
            assert d == MultiPoly.one()
            assert chi.is_zero

    def test_ratio_identities_symbolic(self):
        # d_n = lam_prod(n) d_{n-1} and the cross-multiplied c_n formula
        mu = stieltjes_moments(9, SYM)
        d_prev, chi_prev = MultiPoly.one(), MultiPoly.zero()
        for n in range(5):
            d_n, chi_n = hankel_dets(n, mu)
            assert d_n == SYM.lam_product(n) * d_prev
            assert SYM.c(n) * d_n * d_prev == chi_n * d_prev - chi_prev * d_n
            d_prev, chi_prev = d_n, chi_n


class TestQnViaDeterminant:
    def test_symbolic_n1(self):
        mu = stieltjes_moments(1, SYM)
        assert qn_via_determinant(1, mu) == UniPoly((-c0, 1))

    def test_matches_recursion_symbolic(self):
        mu = stieltjes_moments(7, SYM)
        basis = generate_basis(4, SYM)
        for n in range(5):
            assert qn_via_determinant(n, mu) == basis.poly(n)

    def test_matches_recursion_specialized(self):
        for spec in (CAT, FIB):
            mu = stieltjes_moments(15, spec)
            basis = generate_basis(8, spec)
            for n in range(9):
                assert qn_via_determinant(n, mu) == basis.poly(n)

    def test_fibonacci_prefactor(self):
        # the inverse determinant prefactor is (-1)^ceil((n-1)/2)
        mu = stieltjes_moments(11, FIB)
        assert qn_via_determinant(3, mu) == UniPoly((0, 2, 0, 1))
        for n in range(1, 7):
            d_prev, _ = hankel_dets(n - 1, mu)
            assert d_prev == MultiPoly.const((-1) ** (n // 2))

    def test_catalan_n2(self):
        mu = stieltjes_moments(3, CAT)
        assert qn_via_determinant(2, mu) == UniPoly((-1, 0, 1))
        d1, _ = hankel_dets(1, mu)
        assert d1 == MultiPoly.one()


def _qn_outcome(route, n, mu):
    """Q_n from one route, or the SingularHankelError message it raised."""
    try:
        return route(n, mu)
    except SingularHankelError as exc:
        return f"singular: {exc}"


def _hand_built(moments) -> MomentSeq:
    """A moment sequence given directly, with no triangle behind it."""
    return MomentSeq(
        CoeffSpec.custom([], []), tuple(MultiPoly.const(v) for v in moments), ()
    )


_small_rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
)


class TestQnAgreesWithCofactors:
    """The Gauss-Jordan route against the cofactor-expansion oracle."""

    def test_symbolic(self):
        mu = stieltjes_moments(9, SYM)
        for n in range(6):
            assert qn_via_determinant(n, mu) == qn_via_cofactors(n, mu)

    @pytest.mark.parametrize("spec", [CAT, FIB], ids=str)
    def test_catalan_and_fibonacci(self, spec):
        mu = stieltjes_moments(23, spec)
        for n in range(13):
            assert qn_via_determinant(n, mu) == qn_via_cofactors(n, mu)

    def test_zero_first_pivot_swaps_rows(self):
        # mu_0 = 0 but d_1 = -1: the first column's pivot comes from row 1
        mu = _hand_built([0, 1, 1, 2])
        assert qn_via_determinant(2, mu) == UniPoly((-1, -1, 1))
        assert qn_via_cofactors(2, mu) == UniPoly((-1, -1, 1))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_small_rationals, min_size=2, max_size=10), st.booleans())
    def test_hand_built_moments(self, moments, zero_head):
        n = len(moments) // 2
        if zero_head:
            moments = [Fraction(0)] + moments[1:]
        mu = _hand_built(moments)
        assert _qn_outcome(qn_via_determinant, n, mu) == _qn_outcome(
            qn_via_cofactors, n, mu
        )


class TestSingularHankel:
    def test_vanishing_lambda_2_makes_d_2_singular(self):
        # d_2 = lambda_1^2 lambda_2, so lambda_2 = 0 leaves Q_3 undefined
        spec = CoeffSpec.custom([1, 2, 3, 4, 5, 6], [1, 0, 2, 3, 4, 5])
        mu = stieltjes_moments(5, spec)
        assert hankel_dets(2, mu)[0].is_zero
        assert qn_via_determinant(2, mu) == generate_basis(2, spec).poly(2)
        with pytest.raises(
            SingularHankelError, match=r"^leading Hankel determinant d_2 vanishes$"
        ):
            qn_via_determinant(3, mu)


class TestBasisInverse:
    def test_trivial(self):
        basis = generate_basis(0, SYM)
        mu = stieltjes_moments(0, SYM)
        assert basis_inverse_check(0, basis, mu)

    def test_symbolic(self):
        basis = generate_basis(4, SYM)
        mu = stieltjes_moments(4, SYM)
        assert basis_inverse_check(4, basis, mu)

    def test_fibonacci_deep(self):
        basis = generate_basis(8, FIB)
        mu = stieltjes_moments(8, FIB)
        assert basis_inverse_check(8, basis, mu)

    def test_zero_lambda_is_degenerate(self):
        spec = CoeffSpec.custom([0] * 4, [0] * 3)
        basis = generate_basis(3, spec)
        mu = stieltjes_moments(3, spec)
        with pytest.raises(DegenerateSpecError):
            basis_inverse_check(3, basis, mu)


class TestExpandInBasis:
    def test_x7_fibonacci(self):
        basis = generate_basis(7, FIB)
        mu = stieltjes_moments(14, FIB)
        coeffs = expand_in_basis(UniPoly.monomial(7), basis, mu)
        values = [c.constant_value() for c in coeffs]
        assert values == [0, -14, 0, 14, 0, -6, 0, 1]

    def test_x8_fibonacci(self):
        basis = generate_basis(8, FIB)
        mu = stieltjes_moments(16, FIB)
        coeffs = expand_in_basis(UniPoly.monomial(8), basis, mu)
        values = [c.constant_value() for c in coeffs]
        assert values == [14, 0, -28, 0, 20, 0, -7, 0, 1]

    def test_x2_fibonacci(self):
        basis = generate_basis(2, FIB)
        mu = stieltjes_moments(4, FIB)
        coeffs = expand_in_basis(UniPoly.monomial(2), basis, mu)
        assert [c.constant_value() for c in coeffs] == [-1, 0, 1]

    def test_reconstruction_through_degree_ten(self):
        basis = generate_basis(10, FIB)
        mu = stieltjes_moments(20, FIB)
        for n in range(11):
            # expand_in_basis re-checks the reconstruction internally
            coeffs = expand_in_basis(UniPoly.monomial(n), basis, mu)
            assert len(coeffs) == n + 1

    def test_symbolic_expansion(self):
        basis = generate_basis(3, SYM)
        mu = stieltjes_moments(6, SYM)
        coeffs = expand_in_basis(UniPoly.monomial(3), basis, mu)
        rebuilt = UniPoly.zero()
        for k, coeff in enumerate(coeffs):
            rebuilt = rebuilt + coeff * basis.poly(k)
        assert rebuilt == UniPoly.monomial(3)


class TestHankelPositivity:
    def test_catalan_size_three(self):
        mu = stieltjes_moments(4, CAT)
        matrix = HankelMatrix.plain(2, mu)
        expected = [[1, 0, 1], [0, 1, 0], [1, 0, 2]]
        assert [[int(e.constant_value()) for e in row] for row in matrix.rows()] == expected
        verdict = hankel_positivity(matrix)
        assert verdict.minors == (Fraction(1), Fraction(1), Fraction(1))
        assert verdict.positive_definite and verdict.nonsingular

    def test_fibonacci_indefinite_but_nonsingular(self):
        mu = stieltjes_moments(8, FIB)
        verdict = hankel_positivity(HankelMatrix.plain(4, mu))
        assert verdict.minors[-1] == 1
        assert not verdict.positive_definite
        assert verdict.nonsingular

    def test_trivial(self):
        mu = stieltjes_moments(0, CAT)
        verdict = hankel_positivity(HankelMatrix.plain(0, mu))
        assert verdict.positive_definite

    def test_symbolic_rejected(self):
        mu = stieltjes_moments(2, SYM)
        with pytest.raises(SymbolicMatrixError):
            hankel_positivity(HankelMatrix.plain(1, mu))

    def test_latex_matrix(self):
        mu = stieltjes_moments(2, CAT)
        text = HankelMatrix.plain(1, mu).to_latex()
        assert text.startswith("\\begin{pmatrix}")
        assert "1 & 0" in text
