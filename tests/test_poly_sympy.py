"""Differential tests against SymPy: products, exact quotients, Bareiss determinants.

SymPy is a test-only reference here; the module is skipped when it is absent.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from heaporth.basis import CoeffSpec, HankelMatrix, det_bareiss, stieltjes_moments  # noqa: E402
from heaporth.poly import (  # noqa: E402
    InexactDivisionError,
    MultiPoly,
    X,
    c_var,
    lam_var,
)

_POOL = (X, c_var(0), c_var(1), c_var(2), lam_var(1), lam_var(2))
_GENS = sympy.symbols("x c0 c1 c2 c3 c4 l1 l2 l3 l4 l5")


def to_sympy(p: MultiPoly) -> "sympy.Poly":
    """Rebuild p in SymPy from its JSON terms (names and exponents only)."""
    expr = sympy.Integer(0)
    for entry in p.to_json_dict()["terms"]:
        num, den = entry["coeff"].split("/")
        mono = sympy.Rational(int(num), int(den))
        for name, exp in entry["powers"].items():
            mono *= sympy.Symbol(name) ** exp
        expr += mono
    return sympy.Poly(expr, *_GENS, domain="QQ")


def _polys(min_terms=0, max_terms=5):
    term = st.tuples(
        st.fractions(min_value=-9, max_value=9, max_denominator=5),
        st.dictionaries(st.sampled_from(_POOL), st.integers(1, 4), max_size=3),
    )
    return st.lists(term, min_size=min_terms, max_size=max_terms).map(MultiPoly.from_terms)


polys = _polys()
nonzero_consts = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
monomials = st.tuples(
    nonzero_consts,
    st.dictionaries(st.sampled_from(_POOL), st.integers(1, 4), min_size=1, max_size=3),
).map(lambda t: MultiPoly.from_terms([t]))
multiterm = _polys(2, 4).filter(lambda p: len(list(p.items())) >= 2)


@given(polys, polys)
@settings(max_examples=80, deadline=None)
def test_product_matches_sympy(a, b):
    assert to_sympy(a * b) == to_sympy(a) * to_sympy(b)


def _check_quotient(dividend: MultiPoly, divisor: MultiPoly) -> None:
    q, r = sympy.div(to_sympy(dividend), to_sympy(divisor))
    assert r.is_zero
    assert to_sympy(dividend.exact_div(divisor)) == q


@given(polys, nonzero_consts)
@settings(max_examples=60, deadline=None)
def test_exact_div_by_constant(a, c):
    _check_quotient(a, MultiPoly.const(c))
    assert to_sympy(a.exact_div(c)) == to_sympy(a) * sympy.Rational(c.denominator, c.numerator)


@given(polys, monomials)
@settings(max_examples=80, deadline=None)
def test_exact_div_by_monomial(a, m):
    _check_quotient(a * m, m)


@given(polys, multiterm)
@settings(max_examples=80, deadline=None)
def test_exact_div_by_multiterm(a, d):
    _check_quotient(a * d, d)


@given(polys, monomials)
@settings(max_examples=80, deadline=None)
def test_inexact_monomial_division_raises(a, m):
    _, r = sympy.div(to_sympy(a), to_sympy(m))
    if r.is_zero:
        _check_quotient(a, m)
    else:
        with pytest.raises(InexactDivisionError):
            a.exact_div(m)


def test_inexact_monomial_division_example():
    c0, c1, l1 = MultiPoly.c(0), MultiPoly.c(1), MultiPoly.lam(1)
    with pytest.raises(InexactDivisionError):
        (c0 * l1 + c1).exact_div(c0 * l1)
    with pytest.raises(InexactDivisionError):
        (c0**2).exact_div(c0**3)


@pytest.mark.parametrize("variant", ["plain", "shifted"])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_symbolic_hankel_det_matches_sympy_bareiss(n, variant):
    mu = stieltjes_moments(2 * n + 1, CoeffSpec.symbolic())
    rows = HankelMatrix(mu, n, variant).rows()
    ours = det_bareiss(rows)
    matrix = sympy.Matrix([[to_sympy(e).as_expr() for e in row] for row in rows])
    theirs = sympy.Poly(sympy.expand(matrix.det(method="bareiss")), *_GENS, domain="QQ")
    assert to_sympy(ours) == theirs


def test_constant_quotient_keeps_fractions_exact():
    p = MultiPoly.from_terms([(Fraction(3, 4), {c_var(0): 1}), (2, {})])
    _check_quotient(p, MultiPoly.const(Fraction(-6, 5)))
